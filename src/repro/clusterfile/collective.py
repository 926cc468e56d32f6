"""Two-phase collective I/O on top of the redistribution algorithm.

The paper positions its machinery as the foundation for MPI-IO-style
systems (§3: the MPI-IO file model "can be implemented using our file
model and mappings"; redistribution works "memory-memory" too).  The
classic payoff of that combination is ROMIO's *two-phase collective
I/O*: when per-process views are poorly matched to the file, processes
first **shuffle** data among themselves in memory so that each of a few
*aggregators* holds one large contiguous range of the file domain, and
only then hit the file system with big contiguous writes.

Both phases fall out of the paper's algorithms directly:

* the shuffle is a memory-memory redistribution between the logical
  partition and a contiguous *file-domain* partition
  (:func:`file_domain_partition`), scheduled by INTERSECT + PROJ;
* the write phase is an ordinary Clusterfile write through views set to
  the file-domain partition — whose matching degree against any
  physical layout is at least as good as the original views'.

The collective write here supports the collective-buffering case where
the participating accesses exactly tile a whole number of logical
periods (the usual aligned collective pattern); unaligned collectives
fall back to independent writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..core.falls import Falls
from ..core.partition import Partition
from ..redistribution.gather_scatter import as_flat_bytes
from ..redistribution.plan_cache import get_plan
from .client import OperationResult
from .engine import run_shuffle
from .fs import Clusterfile

__all__ = [
    "CollectiveResult",
    "file_domain_partition",
    "two_phase_read",
    "two_phase_write",
]


@dataclass
class CollectiveResult:
    """Timings and traffic of one two-phase collective write."""

    #: Phase-1 shuffle: messages between compute nodes and bytes moved
    #: off-node (on-node bytes are free).
    shuffle_messages: int
    shuffle_bytes: int
    #: Simulated phase-1 time (seconds): parallel alpha-beta exchange.
    shuffle_time_s: float
    #: Phase-2 file-system write result (the usual breakdown).
    write: OperationResult
    #: Aggregate fragments the file system had to scatter, for
    #: comparison against the direct write.
    scatter_fragments: int
    #: Span tree of the phase-1 shuffle (see :mod:`repro.obs`).
    shuffle_trace: object = None


def file_domain_partition(
    file_bytes: int, aggregators: int, displacement: int = 0
) -> Partition:
    """Contiguous file-domain chunks, one per aggregator (ROMIO-style).

    The chunks are equal to within one byte; the partition's pattern is
    the whole file region, applied once.
    """
    if file_bytes < 1 or aggregators < 1:
        raise ValueError("need file_bytes >= 1 and aggregators >= 1")
    aggregators = min(aggregators, file_bytes)
    chunk = file_bytes // aggregators
    rem = file_bytes % aggregators
    elements = []
    pos = 0
    for a in range(aggregators):
        size = chunk + (1 if a < rem else 0)
        elements.append(Falls(pos, pos + size - 1, file_bytes, 1))
        pos += size
    return Partition(elements, displacement=displacement)


def two_phase_write(
    fs: Clusterfile,
    name: str,
    accesses: Sequence[tuple],
    aggregators: int | None = None,
    to_disk: bool = False,
) -> CollectiveResult:
    """Collective write: shuffle to file-domain aggregators, then write.

    ``accesses`` is the same ``(compute_node, view_offset, data)`` list
    :meth:`Clusterfile.write` takes; all participating views must belong
    to the same logical partition, every view must participate, and the
    written intervals must jointly tile a whole number of logical
    periods starting at offset 0 (the aligned collective-buffering
    case).  Aggregators default to one per compute node.
    """
    cfile = fs.open(name)
    views = [fs.view_of(name, node) for node, _, _ in accesses]
    logical = views[0].logical
    if any(v.logical != logical for v in views[1:]):
        raise ValueError("collective accesses must share one logical partition")
    if {v.element for v in views} != set(range(logical.num_elements)):
        raise ValueError("every element of the logical partition must take part")
    if any(off != 0 for _, off, _ in accesses):
        raise ValueError("aligned collective writes start at view offset 0")

    flat = {
        view.element: as_flat_bytes(data, "data")
        for view, (_, _, data) in zip(views, accesses)
    }
    periods = {e: buf.size / logical.element_size(e) for e, buf in flat.items()}
    k = periods[views[0].element]
    if any(p != k for p in periods.values()) or k != int(k) or k < 1:
        raise ValueError(
            "accesses must cover the same whole number of logical periods"
        )
    length = logical.displacement + int(k) * logical.size

    if aggregators is None:
        aggregators = fs.config.compute_nodes

    # Phase 1: memory-memory redistribution onto the file domain.
    domain = file_domain_partition(
        length - logical.displacement, aggregators, logical.displacement
    )
    plan = get_plan(logical, domain)
    src_buffers = [flat[e] for e in range(logical.num_elements)]
    # The engine's direct transport prices the exchange: each compute
    # node sends its intersections with every aggregator in parallel
    # across nodes, serially on its own NIC — the standard alpha-beta
    # model of an irregular all-to-all.
    sh = run_shuffle(
        plan,
        src_buffers,
        length,
        network=fs.cluster.network.model,
        injector=fs.fault_injector,
        retry_policy=fs.retry_policy,
    )
    agg_buffers = sh.buffers

    # Phase 2: aggregators write their contiguous chunks.
    for a in range(domain.num_elements):
        fs.set_view(name, a % fs.config.compute_nodes, domain, element=a)
    write_accesses = [
        (a % fs.config.compute_nodes, 0, agg_buffers[a])
        for a in range(domain.num_elements)
        if agg_buffers[a].size
    ]
    result = fs.write(name, write_accesses, to_disk=to_disk)

    # Restore the callers' views (phase 2 clobbered them).
    for v in views:
        fs.views[(name, v.compute_node)] = v

    # Fragments the file system scattered in phase 2 (per period of the
    # domain-vs-physical schedule) - the number the direct write would
    # compare against.
    fragments = sum(
        t.dst_fragments_per_period
        for t in get_plan(domain, cfile.physical).transfers
    )
    return CollectiveResult(
        shuffle_messages=sh.messages,
        shuffle_bytes=sh.off_node_bytes,
        shuffle_time_s=sh.time_s,
        write=result,
        scatter_fragments=fragments,
        shuffle_trace=sh.trace,
    )


def two_phase_read(
    fs: Clusterfile,
    name: str,
    requests: Sequence[tuple],
    aggregators: int | None = None,
    from_disk: bool = False,
) -> Tuple[List[np.ndarray], CollectiveResult]:
    """Collective read: aggregators stream contiguous chunks, then the
    data shuffles out to the callers' views (the mirror of
    :func:`two_phase_write`).

    ``requests`` is a list of ``(compute_node, view_offset, length)``
    like :meth:`Clusterfile.read` takes, under the same alignment rules
    as the collective write.  Returns the per-caller buffers plus the
    traffic/timing record.
    """
    views = [fs.view_of(name, node) for node, _, _ in requests]
    logical = views[0].logical
    if any(v.logical != logical for v in views[1:]):
        raise ValueError("collective accesses must share one logical partition")
    if {v.element for v in views} != set(range(logical.num_elements)):
        raise ValueError("every element of the logical partition must take part")
    if any(off != 0 for _, off, _ in requests):
        raise ValueError("aligned collective reads start at view offset 0")
    lengths = {node: length for node, _, length in requests}
    periods = {
        node: lengths[node]
        / logical.element_size(fs.view_of(name, node).element)
        for node in lengths
    }
    k = periods[requests[0][0]]
    if any(p != k for p in periods.values()) or k != int(k) or k < 1:
        raise ValueError(
            "accesses must cover the same whole number of logical periods"
        )
    length = logical.displacement + int(k) * logical.size

    if aggregators is None:
        aggregators = fs.config.compute_nodes
    domain = file_domain_partition(
        length - logical.displacement, aggregators, logical.displacement
    )

    # Phase 1: aggregators read their contiguous file chunks.
    for a in range(domain.num_elements):
        fs.set_view(name, a % fs.config.compute_nodes, domain, element=a)
    read_requests = [
        (
            a % fs.config.compute_nodes,
            0,
            domain.element_length(a, length),
        )
        for a in range(domain.num_elements)
    ]
    agg_buffers, result = fs.read_with_result(
        name,
        [(n, o, ln) for n, o, ln in read_requests if ln],
        from_disk=from_disk,
    )

    # Phase 2: shuffle from the file domain to the callers' views.
    plan = get_plan(domain, logical)
    sh = run_shuffle(
        plan,
        agg_buffers,
        length,
        network=fs.cluster.network.model,
        injector=fs.fault_injector,
        retry_policy=fs.retry_policy,
    )
    out_by_element = sh.buffers

    # Restore the callers' views.
    for v in views:
        fs.views[(name, v.compute_node)] = v

    cfile = fs.open(name)
    fragments = sum(
        t.src_fragments_per_period
        for t in get_plan(cfile.physical, domain).transfers
    )
    buffers = [
        out_by_element[fs.view_of(name, node).element] for node, _, _ in requests
    ]
    return buffers, CollectiveResult(
        shuffle_messages=sh.messages,
        shuffle_bytes=sh.off_node_bytes,
        shuffle_time_s=sh.time_s,
        write=result,
        scatter_fragments=fragments,
        shuffle_trace=sh.trace,
    )
