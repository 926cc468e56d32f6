"""repro — Mapping Functions and Data Redistribution for Parallel Files.

A complete, self-contained reproduction of Isaila & Tichy, *Mapping
Functions and Data Redistribution for Parallel Files* (IPPS 2002):

* :mod:`repro.core` — the parallel file model: (nested) FALLS and
  PITFALLS data representations, partitioning patterns, the MAP /
  MAP^{-1} mapping functions, CUT-FALLS, INTERSECT-FALLS, the nested
  intersection algorithm (PREPROCESS + INTERSECT-AUX) and intersection
  projections;
* :mod:`repro.distributions` — HPF-style BLOCK / CYCLIC(k)
  distributions of n-dimensional arrays as nested FALLS, MPI derived
  datatypes, irregular partitions, and the nCube bit-permutation
  baseline;
* :mod:`repro.redistribution` — GATHER/SCATTER, redistribution
  schedules and executors (plus the per-byte baselines the paper argues
  against);
* :mod:`repro.simulation` — the simulated 2001-era cluster (Myrinet
  network, IDE disk, buffer cache cost models) standing in for the
  paper's testbed;
* :mod:`repro.clusterfile` — the Clusterfile parallel file system case
  study: subfiles, views, and the instrumented write/read paths;
* :mod:`repro.bench` — the harness regenerating the paper's Tables 1
  and 2 and the ablation studies.

Quick start::

    import numpy as np
    from repro import (Falls, Partition, matrix_partition, build_plan,
                       distribute, execute_plan, collect)

    data = np.arange(64 * 64, dtype=np.uint8)
    cols = matrix_partition("c", 64, 64, 4)   # physical: column blocks
    rows = matrix_partition("r", 64, 64, 4)   # logical: row blocks
    plan = build_plan(cols, rows)             # segment-level schedule
    out = execute_plan(plan, distribute(data, cols), data.size)
    assert np.array_equal(collect(out, rows, data.size), data)
"""

from .core import (
    ElementMapper,
    Falls,
    FallsSet,
    LineSegment,
    MappingError,
    Partition,
    PartitionError,
    PeriodicFallsSet,
    cut_falls,
    cut_nested_set,
    falls_from_segment,
    intersect_elements,
    intersect_falls,
    intersect_nested_sets,
    intersect_partitions,
    map_between,
    map_offset,
    project,
    unmap_offset,
)
from .core.algebra import complement, difference, partition_from_elements, same_bytes, union
from .core.matching import MatchingReport, matching_degree
from .core.pitfalls import Pitfalls, cyclic_pitfalls, pitfalls_from_falls
from .distributions import (
    Block,
    BlockCyclic,
    Cyclic,
    Replicated,
    column_blocks,
    matrix_partition,
    multidim_partition,
    row_blocks,
    round_robin,
    square_blocks,
)
from .redistribution import (
    RedistributionPlan,
    Transfer,
    build_plan,
    collect,
    distribute,
    execute_plan,
    gather,
    redistribute,
    scatter,
)

__version__ = "0.1.0"

__all__ = [
    "Block",
    "BlockCyclic",
    "Cyclic",
    "ElementMapper",
    "Falls",
    "FallsSet",
    "LineSegment",
    "MappingError",
    "MatchingReport",
    "Partition",
    "PartitionError",
    "PeriodicFallsSet",
    "Pitfalls",
    "RedistributionPlan",
    "Replicated",
    "Transfer",
    "build_plan",
    "collect",
    "column_blocks",
    "complement",
    "cut_falls",
    "cut_nested_set",
    "cyclic_pitfalls",
    "difference",
    "distribute",
    "execute_plan",
    "falls_from_segment",
    "gather",
    "intersect_elements",
    "intersect_falls",
    "intersect_nested_sets",
    "intersect_partitions",
    "map_between",
    "map_offset",
    "matching_degree",
    "matrix_partition",
    "multidim_partition",
    "partition_from_elements",
    "pitfalls_from_falls",
    "project",
    "redistribute",
    "round_robin",
    "row_blocks",
    "same_bytes",
    "scatter",
    "square_blocks",
    "union",
    "unmap_offset",
]
