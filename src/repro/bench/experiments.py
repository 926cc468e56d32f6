"""Experiment drivers regenerating the paper's tables.

Each driver runs the §8.2 benchmark — four compute nodes concurrently
writing a row-block-partitioned matrix view into a file with a given
physical layout — on the simulated cluster, repeats it (the paper used
ten repetitions and reports means; repetition count is configurable),
and emits rows shaped like the paper's tables.

Reporting conventions (documented in EXPERIMENTS.md):

* ``t_i``, ``t_m``, ``t_g`` are means over compute nodes of *measured*
  wall time of our implementations;
* ``t_i_ref`` is the paper's own algorithm for ``t_i``, measured beside
  it as a reference: per compute node, cold INTERSECT-AUX + PROJ of its
  view against every subfile, averaged over compute nodes;
* ``t_g_ref`` is the paper's GATHER measured the same way: per compute
  node, one slice copy per segment of its write payload toward every
  subfile it must gather for, averaged over compute nodes;
  ``gather_segments`` counts those segments (the production gather
  moves each link's segments as one strided copy, so its ``t_g``
  follows bytes, not segments);
* ``t_w^bc`` / ``t_w^disk`` are the *makespan* over compute nodes of the
  simulated exchange — the paper observes t_w "is limited by the slowest
  I/O server";
* Table 2's scatter times are means over I/O nodes, with the cache copy
  and disk flush taken from the era device models.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from statistics import mean
from typing import List, Sequence, Tuple

import numpy as np

from ..clusterfile.fs import Clusterfile
from ..core.intersect_nested import intersect_elements
from ..core.partition import Partition
from ..core.projection import project
from ..redistribution.plan_cache import clear_plan_cache
from ..simulation.cluster import ClusterConfig
from .workloads import PAPER_PHYSICAL_LAYOUTS, PAPER_SIZES, MatrixWorkload

__all__ = ["Table1Row", "Table2Row", "run_workload", "table1", "table2"]


@dataclass
class Table1Row:
    """One row of Table 1: write-time breakdown at the compute node."""

    size: int
    physical: str
    logical: str
    t_i: float
    t_m: float
    t_g: float
    t_w_bc: float
    t_w_disk: float
    t_i_ref: float = 0.0
    t_g_ref: float = 0.0
    #: Segments a compute node gathers for its write (a count).
    gather_segments: float = 0.0


@dataclass
class Table2Row:
    """One row of Table 2: scatter time at the I/O node."""

    size: int
    physical: str
    logical: str
    t_sc_bc: float
    t_sc_disk: float


@dataclass
class WorkloadResult:
    table1: Table1Row
    table2: Table2Row
    messages: int
    payload_bytes: int


#: Runs of each reference algorithm per view; its column keeps the
#: fastest, so a preemption during one run does not reorder layouts.
REFERENCE_RUNS = 3


def _best_of(run) -> float:
    best = float("inf")
    for _ in range(REFERENCE_RUNS):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return best


def intersect_project_us(logical: Partition, physical: Partition) -> float:
    """Mean over views of the cold INTERSECT-AUX + PROJ of one view
    against every subfile (µs, best of :data:`REFERENCE_RUNS`): the
    paper's ``t_i`` algorithm, which plan construction no longer runs
    (it keeps no state between runs)."""

    def one_view(v):
        for s in range(physical.num_elements):
            inter = intersect_elements(logical, v, physical, s)
            if not inter.is_empty:
                project(inter, logical, v)
                project(inter, physical, s)

    return mean(
        _best_of(lambda: one_view(v)) for v in range(logical.num_elements)
    ) * 1e6


def per_segment_gather(fs: Clusterfile, name: str, accesses) -> Tuple[float, float]:
    """``(t_g_ref, gather_segments)``: the mean over compute nodes of the
    paper's GATHER of each write access — one slice copy per segment of
    the view's projection on every subfile whose bytes are not one run
    (µs, best of :data:`REFERENCE_RUNS`) — and of the segments so
    copied."""
    times, counts = [], []
    for node, offset, buf in accesses:
        view = fs.view_of(name, node)
        lo, hi = offset, offset + buf.size - 1
        lists = []
        for link in view.links.values():
            starts, lengths = link.proj_view.segments_in(lo, hi)
            if starts.size > 1:  # one run is sent without a gather
                lists.append(((starts - lo).tolist(), lengths.tolist()))

        def gather():
            for starts, lengths in lists:
                out = np.empty(sum(lengths), dtype=np.uint8)
                pos = 0
                for a, n in zip(starts, lengths):
                    out[pos : pos + n] = buf[a : a + n]
                    pos += n

        times.append(_best_of(gather) if lists else 0.0)
        counts.append(sum(len(starts) for starts, _ in lists))
    return mean(times) * 1e6, mean(counts)


def run_workload(
    workload: MatrixWorkload,
    config: ClusterConfig | None = None,
    repeats: int = 3,
    verify: bool = True,
) -> WorkloadResult:
    """Run one experiment cell and average the timings over ``repeats``."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    config = config or ClusterConfig()
    data = workload.data()
    t1_acc: List[Table1Row] = []
    t2_acc: List[Table2Row] = []
    messages = payload_bytes = 0
    for rep in range(repeats):
        # Each repetition measures a *cold* t_i, as the paper's tables
        # do; without this the process-wide plan cache would serve every
        # repetition after the first and t_i would collapse to a lookup.
        clear_plan_cache()
        fs = Clusterfile(config)
        physical, logical = workload.physical(), workload.logical()
        fs.create("m", physical)
        for c in range(workload.nprocs):
            fs.set_view("m", c, logical)
        accesses = workload.view_accesses(data)
        result = fs.write("m", accesses, to_disk=True)
        if verify and rep == 0:
            got = fs.linear_contents("m", data.size)
            if not np.array_equal(got, data):  # pragma: no cover
                raise AssertionError(f"data corruption in {workload.label}")
        bds = list(result.per_compute.values())
        t_g_ref, gather_segments = per_segment_gather(fs, "m", accesses)
        t1_acc.append(
            Table1Row(
                size=workload.n,
                physical=workload.physical_layout,
                logical=workload.logical_layout,
                t_i=mean(b.t_i for b in bds),
                t_m=mean(b.t_m for b in bds),
                t_g=mean(b.t_g for b in bds),
                t_w_bc=max(b.t_w_bc for b in bds),
                t_w_disk=max(b.t_w_disk for b in bds),
                t_i_ref=intersect_project_us(logical, physical),
                t_g_ref=t_g_ref,
                gather_segments=gather_segments,
            )
        )
        ios = list(result.per_io.values())
        t2_acc.append(
            Table2Row(
                size=workload.n,
                physical=workload.physical_layout,
                logical=workload.logical_layout,
                t_sc_bc=mean(s.t_sc_bc for s in ios),
                t_sc_disk=mean(s.t_sc_disk for s in ios),
            )
        )
        messages, payload_bytes = result.messages, result.payload_bytes

    def avg(rows, field):
        return mean(getattr(r, field) for r in rows)

    t1 = Table1Row(
        workload.n,
        workload.physical_layout,
        workload.logical_layout,
        *(
            avg(t1_acc, f)
            for f in (
                "t_i", "t_m", "t_g", "t_w_bc", "t_w_disk", "t_i_ref", "t_g_ref",
                "gather_segments",
            )
        ),
    )
    t2 = Table2Row(
        workload.n,
        workload.physical_layout,
        workload.logical_layout,
        avg(t2_acc, "t_sc_bc"),
        avg(t2_acc, "t_sc_disk"),
    )
    return WorkloadResult(t1, t2, messages, payload_bytes)


def table1(
    sizes: Sequence[int] = PAPER_SIZES,
    layouts: Sequence[str] = PAPER_PHYSICAL_LAYOUTS,
    config: ClusterConfig | None = None,
    repeats: int = 3,
) -> List[Table1Row]:
    """Regenerate Table 1 (write-time breakdown at the compute node)."""
    return [
        run_workload(MatrixWorkload(n, ph), config, repeats).table1
        for n in sizes
        for ph in layouts
    ]


def table2(
    sizes: Sequence[int] = PAPER_SIZES,
    layouts: Sequence[str] = PAPER_PHYSICAL_LAYOUTS,
    config: ClusterConfig | None = None,
    repeats: int = 3,
) -> List[Table2Row]:
    """Regenerate Table 2 (scatter time at the I/O node)."""
    return [
        run_workload(MatrixWorkload(n, ph), config, repeats).table2
        for n in sizes
        for ph in layouts
    ]
