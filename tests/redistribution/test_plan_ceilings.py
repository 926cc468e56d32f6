"""Time, memory and size ceilings for redistribution plan construction.

``build_plan`` reads from the FALLS trees when both partitions are
products of rows and columns, sweeps the row factors and the column
factors once each, and assembles every transfer as rows x columns, so a
plan's cost follows the number of rows and columns, not the n² bytes of
the matrix.  The flattened sweep it replaces for such layouts cuts a
``k = 1`` window into one piece per byte and re-nests every pair's
segment lists by period detection: 0.22 s and a 66 MiB tracemalloc peak
at n = 1024, about 5 s and 1 GiB by extrapolation at the n = 4096 below.
The flattened sweep still serves every layout that is not a product,
so its own peak at n = 1024 keeps the pairwise construction's ceiling
(96 MiB; the sweep frees per-pair work as it goes).
Structural INTERSECT-AUX on the single-block wrappers of a
multidimensional layout recurses once per row instead (more than 70 s
at n = 1024), and a flat compressor stored one FALLS per matrix column
(576) where two nested ones describe the same bytes.  A view set over
a cached plan reads the plan's projections and nothing else; when it
also built an element mapper per view and subfile, the ``k = 1`` view
expanded 160 MiB of them in 47-119 ms, none of which an access read.
"""

import time
import tracemalloc

import pytest

from repro.clusterfile.view import set_view
from repro.core.partition import Partition
from repro.distributions import BlockCyclic, matrix_partition, multidim_partition
from repro.distributions.multidim import multidim_element
from repro.redistribution import build_plan, get_plan, schedule

N = 4096
PEAK_CEILING_MIB = 8
SWEEP_PEAK_CEILING_MIB = 96


def _block_cyclic(n, k, grid):
    cyclic = BlockCyclic(k)
    return multidim_partition((n, n), 1, (cyclic, cyclic), grid)


def _unit_block_cyclic():
    """``bc(4096, k = 1, 2 x 2)``, unvalidated: validation expands the
    pattern's 16 Mi one-byte segments, which is the cost under test.
    ``multidim_partition`` validates the same layout at smaller n."""
    grid, cyclic = (2, 2), BlockCyclic(1)
    return Partition(
        [
            multidim_element((N, N), 1, (cyclic, cyclic), grid, divmod(rank, 2))
            for rank in range(4)
        ],
        validate=False,
    )


def _nodes(falls_set):
    def count(f):
        return 1 + sum(count(g) for g in f.inner)

    return sum(count(f) for f in falls_set.falls)


def _assert_closed_form_total(plan):
    # Whole periods only: no period's segments are expanded to count.
    assert plan.total_bytes(N * N) == N * N
    for t in plan.transfers:
        assert "_period_segments" not in t.intersection.__dict__


@pytest.mark.parametrize("physical", ["r", "c", "b"])
def test_unit_block_cyclic_plan_builds_in_a_tenth_of_a_second(physical):
    src, dst = _unit_block_cyclic(), matrix_partition(physical, N, N, 4)
    t0 = time.perf_counter()
    plan = build_plan(src, dst)
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.1
    _assert_closed_form_total(plan)


@pytest.mark.parametrize("physical", ["r", "c", "b"])
def test_unit_block_cyclic_plan_peak_memory(physical):
    src, dst = _unit_block_cyclic(), matrix_partition(physical, N, N, 4)
    tracemalloc.start()
    try:
        plan = build_plan(src, dst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < PEAK_CEILING_MIB << 20
    _assert_closed_form_total(plan)


@pytest.mark.parametrize("physical", ["r", "c", "b"])
def test_flattened_sweep_peak_memory(physical):
    src = _block_cyclic(1024, 1, (2, 2))
    dst = matrix_partition(physical, 1024, 1024, 4)
    tracemalloc.start()
    try:
        transfers = schedule._swept_transfers(src, dst, 0, 1024 * 1024)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < SWEEP_PEAK_CEILING_MIB << 20
    assert sum(t.bytes_in_file(1024 * 1024) for t in transfers) == 1024 * 1024


@pytest.mark.parametrize("physical", ["r", "c", "b"])
def test_unit_block_cyclic_view_set_over_a_cached_plan(physical):
    logical, dst = _unit_block_cyclic(), matrix_partition(physical, N, N, 4)
    get_plan(logical, dst)
    for element in range(4):
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            view = set_view(0, logical, element, dst)
            elapsed = time.perf_counter() - t0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < PEAK_CEILING_MIB << 20
        assert elapsed < 0.01
        assert view.links


def test_column_cyclic_projections_are_pattern_sized():
    src = _block_cyclic(576, 16, (1, 4))
    dst = matrix_partition("c", 576, 576, 4)
    plan = build_plan(src, dst)
    assert len(plan.transfers) == 16
    for t in plan.transfers:
        assert _nodes(t.src_projection.falls) <= 4
        assert _nodes(t.dst_projection.falls) <= 4
