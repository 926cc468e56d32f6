"""Executing redistribution plans on in-memory data.

The paper's algorithms apply to "any combination of redistributions:
disk-disk, disk-memory, memory-disk, memory-memory" (§3).  This module
is the memory-memory executor; the Clusterfile layer reuses the same
plan for the disk-backed combinations.

Data model: a file of ``file_length`` bytes distributed under a
partition is a list of per-element NumPy ``uint8`` buffers, each holding
that element's linear space (exactly what MAP produces).  The executor
moves bytes from the source buffers to the destination buffers by
copying each transfer's source projection straight onto its destination
projection (:func:`~repro.redistribution.gather_scatter.copy_segments`):
§7 puts every intersection segment inside one leaf segment of both
elements, so a transfer is two equally long segment lists, and with no
wire between them there is no message to pack — one read and one write
per moved byte, whole segments at a time.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..core.partition import Partition
from ..obs.span import tracked_span
from .gather_scatter import (
    ResolvedCopy,
    as_flat_bytes,
    gather_segments,
    resolve_copy,
    run_copy,
    scatter_segments,
)
from .schedule import RedistributionPlan, Transfer, build_plan

__all__ = [
    "PlanExecutor",
    "distribute",
    "collect",
    "execute_plan",
    "redistribute",
]


def _check_buffers(
    partition: Partition, buffers: Sequence[np.ndarray], file_length: int
) -> None:
    if len(buffers) != partition.num_elements:
        raise ValueError(
            f"expected {partition.num_elements} buffers, got {len(buffers)}"
        )
    for idx, buf in enumerate(buffers):
        want = partition.element_length(idx, file_length)
        if buf.size != want:
            raise ValueError(
                f"element {idx} buffer holds {buf.size} bytes, "
                f"expected {want} for a {file_length}-byte file"
            )


def distribute(data: np.ndarray, partition: Partition) -> List[np.ndarray]:
    """Split a linear file into per-element buffers (file -> elements).

    Each element gathers its own file-space segments; no plan is
    involved.  Bytes before the displacement belong to no element and
    are dropped, mirroring the paper's file model where the pattern
    starts at the displacement.
    """
    data = as_flat_bytes(data, "data")
    return [
        gather_segments(data, partition.element_segments(e, 0, data.size - 1))
        for e in range(partition.num_elements)
    ]


def collect(
    buffers: Sequence[np.ndarray],
    partition: Partition,
    file_length: int,
    fill: int = 0,
) -> np.ndarray:
    """Reassemble a linear file from per-element buffers (elements -> file).

    Each element scatters into its own file-space segments.  Bytes
    before the displacement are filled with ``fill``.
    """
    _check_buffers(partition, buffers, file_length)
    data = np.full(file_length, fill, dtype=np.uint8)
    for e, buf in enumerate(buffers):
        segs = partition.element_segments(e, 0, file_length - 1)
        scatter_segments(data, segs, buf)
    return data


def _destination_buffers(
    plan: RedistributionPlan, file_length: int, written: Sequence[int]
) -> List[np.ndarray]:
    """Fresh destination buffers.  ``written[j]`` is how many bytes the
    transfers put into element ``j``; they are disjoint, so a count equal
    to the element length means every byte gets written and the
    zero-fill is skipped."""
    buffers = []
    for j in range(plan.dst.num_elements):
        n = plan.dst.element_length(j, file_length)
        alloc = np.empty if written[j] == n else np.zeros
        buffers.append(alloc(n, dtype=np.uint8))
    return buffers


class PlanExecutor:
    """Reusable execution state for one plan.

    The schedule of a plan never changes, so repeated executions (the
    amortisation workload: same views, many accesses) should not pay the
    per-call setup again.  The executor keeps, for the last file length
    it ran, each transfer's ``ResolvedCopy`` — which strided views
    or piece list copy its source projection onto its destination
    projection — and how many bytes each destination element receives.
    A strided copy is a handful of integers; a piece list is three per
    piece, no more than the projections' own window memos already hold.

    That memo is one immutable tuple, replaced whole when the file
    length changes: threads executing one cached plan concurrently read
    it or rebuild an equal one, and nothing in it is written to while
    bytes move, so the shared executor needs no lock.  Obtain a
    process-shared instance via :meth:`RedistributionPlan` +
    :func:`execute_plan`, or hold one explicitly for a long-lived
    pipeline.
    """

    def __init__(self, plan: RedistributionPlan):
        self.plan = plan
        self._memo: Tuple[int, tuple, tuple] | None = None

    def _resolved(self, file_length: int) -> Tuple[tuple, tuple]:
        """``(pairs, written)``: each non-empty transfer with its
        resolved copy, and per destination element the bytes it
        receives."""
        memo = self._memo
        if memo is not None and memo[0] == file_length:
            return memo[1], memo[2]
        plan = self.plan
        pairs: List[Tuple[Transfer, ResolvedCopy]] = []
        written = [0] * plan.dst.num_elements
        for t in plan.transfers:
            src_len = plan.src.element_length(t.src_element, file_length)
            dst_len = plan.dst.element_length(t.dst_element, file_length)
            if src_len == 0 or dst_len == 0:
                continue
            src_segs = t.src_projection.segments_in(0, src_len - 1)
            dst_segs = t.dst_projection.segments_in(0, dst_len - 1)
            if src_segs[1].sum() != dst_segs[1].sum():
                raise AssertionError(  # pragma: no cover
                    "projection byte counts diverge - plan is corrupt"
                )
            copy = resolve_copy(dst_len, dst_segs, src_len, src_segs)
            written[t.dst_element] += copy.nbytes
            pairs.append((t, copy))
        self._memo = (file_length, tuple(pairs), tuple(written))
        return self._memo[1], self._memo[2]

    def execute(
        self, src_buffers: Sequence[np.ndarray], file_length: int
    ) -> List[np.ndarray]:
        """One redistribution pass; see :func:`execute_plan`.

        Inside a traced operation the pass shows up as an
        ``executor.execute`` span with one ``executor.transfer`` child
        per executed transfer.
        """
        plan = self.plan
        _check_buffers(plan.src, src_buffers, file_length)
        pairs, written = self._resolved(file_length)
        dst_buffers = _destination_buffers(plan, file_length, written)
        with tracked_span(
            "executor.execute",
            transfers=len(plan.transfers),
            file_length=file_length,
        ):
            for t, copy in pairs:
                with tracked_span(
                    "executor.transfer", src=t.src_element, dst=t.dst_element
                ) as sp:
                    run_copy(
                        dst_buffers[t.dst_element],
                        src_buffers[t.src_element],
                        copy,
                    )
                    if sp is not None:
                        sp.annotate(bytes=copy.nbytes)
        return dst_buffers


def _executor_for(plan: RedistributionPlan) -> PlanExecutor:
    """The plan's lazily attached executor (plans cached process-wide by
    :mod:`repro.redistribution.plan_cache` thus share resolved copies
    and segment memos across every consumer)."""
    ex = plan.__dict__.get("_executor")
    if ex is None:
        ex = PlanExecutor(plan)
        plan.__dict__["_executor"] = ex
    return ex


def execute_plan(
    plan: RedistributionPlan,
    src_buffers: Sequence[np.ndarray],
    file_length: int,
) -> List[np.ndarray]:
    """Move data from source-partition buffers to destination-partition
    buffers according to a precomputed plan.

    Repeated executions of the same plan reuse cached projection
    segments and resolved copies via the plan's attached
    :class:`PlanExecutor`.
    """
    return _executor_for(plan).execute(src_buffers, file_length)


def redistribute(
    src: Partition,
    dst: Partition,
    src_buffers: Sequence[np.ndarray],
    file_length: int,
    plan: RedistributionPlan | None = None,
) -> List[np.ndarray]:
    """Convenience wrapper: fetch (or reuse) a plan and execute it.

    Without an explicit plan the process-wide plan cache serves the
    pattern pair, so repeated redistributions between the same layouts
    build the schedule once.  A supplied plan must match the partitions
    *structurally* (cached plans are shared objects, so identity would
    be too strict).
    """
    if plan is None:
        from .plan_cache import get_plan  # local import avoids a cycle

        plan = get_plan(src, dst)
    elif plan.src != src or plan.dst != dst:
        raise ValueError("plan was built for different partitions")
    return execute_plan(plan, src_buffers, file_length)
