"""Time, memory and size ceilings for redistribution plan construction.

``build_plan`` labels every byte of one lcm window with its (source
element, destination element) pair in one sweep over both partitions'
same-owner runs, and re-nests each pair's segment lists by period
detection, so a plan's size follows the pattern, not the number of
rows.  Structural INTERSECT-AUX on the single-block wrappers of a
multidimensional layout recurses once per row instead: the ``k = 1``
pairs below took more than 70 s there and run in about 0.2 s here, and a
flat compressor stored one FALLS per matrix column (576) where two
nested ones describe the same bytes.  A ``k = 1`` pair cuts its window
into one piece per byte, so the sweep must not keep per-piece arrays it
can derive per pair: its traced peak stays under the pairwise
construction's 90.6 MiB.
"""

import time
import tracemalloc

import pytest

from repro.distributions import BlockCyclic, matrix_partition, multidim_partition
from repro.redistribution import build_plan

PEAK_CEILING_MIB = 96


def _block_cyclic(n, k, grid):
    cyclic = BlockCyclic(k)
    return multidim_partition((n, n), 1, (cyclic, cyclic), grid)


def _nodes(falls_set):
    def count(f):
        return 1 + sum(count(g) for g in f.inner)

    return sum(count(f) for f in falls_set.falls)


@pytest.mark.parametrize("physical", ["r", "c", "b"])
def test_unit_block_cyclic_plan_builds_within_a_second(physical):
    src = _block_cyclic(1024, 1, (2, 2))
    dst = matrix_partition(physical, 1024, 1024, 4)
    t0 = time.perf_counter()
    plan = build_plan(src, dst)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    assert plan.total_bytes(1024 * 1024) == 1024 * 1024


@pytest.mark.parametrize("physical", ["r", "c", "b"])
def test_unit_block_cyclic_plan_peak_memory(physical):
    src = _block_cyclic(1024, 1, (2, 2))
    dst = matrix_partition(physical, 1024, 1024, 4)
    tracemalloc.start()
    try:
        plan = build_plan(src, dst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < PEAK_CEILING_MIB << 20
    assert plan.total_bytes(1024 * 1024) == 1024 * 1024


def test_column_cyclic_projections_are_pattern_sized():
    src = _block_cyclic(576, 16, (1, 4))
    dst = matrix_partition("c", 576, 576, 4)
    plan = build_plan(src, dst)
    assert len(plan.transfers) == 16
    for t in plan.transfers:
        assert _nodes(t.src_projection.falls) <= 4
        assert _nodes(t.dst_projection.falls) <= 4
