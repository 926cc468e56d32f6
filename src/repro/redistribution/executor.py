"""Executing redistribution plans on in-memory data.

The paper's algorithms apply to "any combination of redistributions:
disk-disk, disk-memory, memory-disk, memory-memory" (§3).  This module
is the memory-memory executor; the Clusterfile layer reuses the same
plan for the disk-backed combinations.

Data model: a file of ``file_length`` bytes distributed under a
partition is a list of per-element NumPy ``uint8`` buffers, each holding
that element's linear space (exactly what MAP produces).  The executor
moves bytes from the source buffers to the destination buffers by
gathering each transfer's source projection and scattering it through
the destination projection — whole segments at a time, never single
bytes.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core.partition import Partition
from ..obs.span import tracked_span
from .gather_scatter import as_flat_bytes, gather_segments, scatter_segments
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


class PlanExecutor:
    """Reusable execution state for one plan.

    The schedule of a plan never changes, so repeated executions (the
    amortisation workload: same views, many accesses) should not pay the
    per-call setup again.  The executor keeps, across calls:

    * the per-transfer projection segment lists for the last few access
      extremities (via each projection's window memo), and
    * one preallocated gather scratch buffer per transfer, so the packed
      intermediate is not re-allocated on every access.

    Scratch buffers are **per transfer per thread**.  Cached plans are
    process-wide shared objects, and the executor rides on the plan, so
    two threads executing the same cached plan concurrently would
    otherwise gather into *one* scratch buffer and scatter each other's
    bytes.  A ``threading.local`` keeps the reuse win (the amortisation
    workload is a loop on one thread) while making concurrent execution
    race-free; the parallel path's pool workers likewise each see their
    own scratch.  Obtain a process-shared instance via
    :meth:`RedistributionPlan` + :func:`execute_plan`, or hold one
    explicitly for a long-lived pipeline.
    """

    def __init__(self, plan: RedistributionPlan):
        self.plan = plan
        self._tls = threading.local()

    def _gather_scratch(self, key: Tuple[int, int], nbytes: int) -> np.ndarray:
        scratch: Dict[Tuple[int, int], np.ndarray] | None = getattr(
            self._tls, "scratch", None
        )
        if scratch is None:
            scratch = self._tls.scratch = {}
        buf = scratch.get(key)
        if buf is None or buf.size < nbytes:
            buf = np.empty(nbytes, dtype=np.uint8)
            scratch[key] = buf
        return buf

    def _run_transfer(
        self,
        t: Transfer,
        src_buffers: Sequence[np.ndarray],
        dst_buffers: List[np.ndarray],
    ) -> None:
        src_len = src_buffers[t.src_element].size
        dst_len = dst_buffers[t.dst_element].size
        if src_len == 0 or dst_len == 0:
            return
        with tracked_span(
            "executor.transfer", src=t.src_element, dst=t.dst_element
        ) as sp:
            src_segs = t.src_projection.segments_in(0, src_len - 1)
            dst_segs = t.dst_projection.segments_in(0, dst_len - 1)
            nbytes = int(src_segs[1].sum()) if src_segs[1].size else 0
            if nbytes != (int(dst_segs[1].sum()) if dst_segs[1].size else 0):
                raise AssertionError(  # pragma: no cover
                    "projection byte counts diverge - plan is corrupt"
                )
            scratch = self._gather_scratch(
                (t.src_element, t.dst_element), nbytes
            )
            packed = gather_segments(
                src_buffers[t.src_element], src_segs, scratch
            )
            scatter_segments(dst_buffers[t.dst_element], dst_segs, packed)
            if sp is not None:
                sp.annotate(bytes=nbytes)

    def execute(
        self,
        src_buffers: Sequence[np.ndarray],
        file_length: int,
        parallel: bool = False,
        max_workers: int | None = None,
    ) -> List[np.ndarray]:
        """One redistribution pass; see :func:`execute_plan`.

        Inside a traced operation the pass shows up as an
        ``executor.execute`` span with one ``executor.transfer`` child
        per executed transfer (serial path; worker threads of the
        parallel path have no trace context and skip the bookkeeping).
        """
        plan = self.plan
        _check_buffers(plan.src, src_buffers, file_length)
        dst_buffers = [
            np.zeros(plan.dst.element_length(j, file_length), dtype=np.uint8)
            for j in range(plan.dst.num_elements)
        ]
        if not parallel:
            with tracked_span(
                "executor.execute",
                transfers=len(plan.transfers),
                file_length=file_length,
            ):
                for t in plan.transfers:
                    self._run_transfer(t, src_buffers, dst_buffers)
            return dst_buffers

        from concurrent.futures import ThreadPoolExecutor

        def run_group(group) -> None:
            for t in group:
                self._run_transfer(t, src_buffers, dst_buffers)

        groups = [
            plan.transfers_to(j)
            for j in range(plan.dst.num_elements)
            if plan.transfers_to(j)
        ]
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            list(pool.map(run_group, groups))
        return dst_buffers


def _executor_for(plan: RedistributionPlan) -> PlanExecutor:
    """The plan's lazily attached executor (plans cached process-wide by
    :mod:`repro.redistribution.plan_cache` thus share scratch buffers
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
    parallel: bool = False,
    max_workers: int | None = None,
) -> List[np.ndarray]:
    """Move data from source-partition buffers to destination-partition
    buffers according to a precomputed plan.

    With ``parallel=True`` the transfers run on a thread pool, grouped
    by destination element so no two threads write the same buffer
    (transfers to one destination are disjoint in bytes but NumPy
    scatter into a shared buffer from multiple threads is still best
    avoided); NumPy's block copies release the GIL, so large
    redistributions scale with cores.

    Repeated executions of the same plan reuse cached projection
    segments and preallocated gather scratch via the plan's attached
    :class:`PlanExecutor`.
    """
    return _executor_for(plan).execute(
        src_buffers, file_length, parallel=parallel, max_workers=max_workers
    )


def execute_plan_windowed(
    plan: RedistributionPlan,
    src_buffers: Sequence[np.ndarray],
    file_length: int,
    window_bytes: int,
) -> List[np.ndarray]:
    """Out-of-core variant: process the file in fixed windows.

    A real redistribution of a file larger than memory cannot gather a
    transfer's entire payload at once.  Because both projections
    enumerate the common bytes in file order, the byte ranks of a file
    window form *aligned rank windows* on both sides: clipping each
    projection to its element's rank range for the window yields
    matching segment lists.  Peak temporary memory is bounded by the
    window size instead of the largest transfer.

    Results are bit-identical to :func:`execute_plan`.
    """
    if window_bytes < 1:
        raise ValueError(f"window_bytes must be >= 1, got {window_bytes}")
    _check_buffers(plan.src, src_buffers, file_length)
    dst_buffers = [
        np.zeros(plan.dst.element_length(j, file_length), dtype=np.uint8)
        for j in range(plan.dst.num_elements)
    ]
    for t in plan.transfers:
        src_len = src_buffers[t.src_element].size
        dst_len = dst_buffers[t.dst_element].size
        if src_len == 0 or dst_len == 0:
            continue
        # Rank windows: how many of this transfer's bytes precede each
        # file-window boundary on each side.
        total = t.intersection.count_in(0, file_length - 1)
        src_done = dst_done = 0
        for w0 in range(0, file_length, window_bytes):
            w1 = min(file_length, w0 + window_bytes)
            chunk = t.intersection.count_in(w0, w1 - 1)
            if chunk == 0:
                continue
            src_segs = _rank_window_segments(
                t.src_projection, src_len, src_done, src_done + chunk
            )
            dst_segs = _rank_window_segments(
                t.dst_projection, dst_len, dst_done, dst_done + chunk
            )
            packed = gather_segments(src_buffers[t.src_element], src_segs)
            scatter_segments(dst_buffers[t.dst_element], dst_segs, packed)
            src_done += chunk
            dst_done += chunk
        if src_done != total:  # pragma: no cover - accounting guard
            raise AssertionError("window sweep lost bytes")
    return dst_buffers


def _rank_window_segments(projection, element_len: int, lo_rank: int, hi_rank: int):
    """Segments of a projection restricted to its k-th..m-th selected
    bytes (selection order == file order == element order)."""
    starts, lengths = projection.segments_in(0, element_len - 1)
    if starts.size == 0 or hi_rank <= lo_rank:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    ends = np.cumsum(lengths)
    begins = ends - lengths
    out_starts = []
    out_lengths = []
    for s, b, e in zip(starts.tolist(), begins.tolist(), ends.tolist()):
        take_lo = max(b, lo_rank)
        take_hi = min(e, hi_rank)
        if take_lo < take_hi:
            out_starts.append(s + (take_lo - b))
            out_lengths.append(take_hi - take_lo)
    return (
        np.array(out_starts, dtype=np.int64),
        np.array(out_lengths, dtype=np.int64),
    )


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
