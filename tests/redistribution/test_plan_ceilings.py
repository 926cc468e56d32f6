"""Time and size ceilings for redistribution plan construction.

``build_plan`` intersects the two partitions' elements as segment lists
over one lcm period and re-nests every intersection and projection by
period detection, so a plan's cost and size follow the pattern, not the
number of rows.  Structural INTERSECT-AUX on the single-block wrappers
of a multidimensional layout recurses once per row instead: the ``k = 1``
pairs below took more than 70 s there and run in about 0.25 s here, and
a flat compressor stored one FALLS per matrix column (576) where two
nested ones describe the same bytes.
"""

import time

import pytest

from repro.distributions import BlockCyclic, matrix_partition, multidim_partition
from repro.redistribution import build_plan


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


def test_column_cyclic_projections_are_pattern_sized():
    src = _block_cyclic(576, 16, (1, 4))
    dst = matrix_partition("c", 576, 576, 4)
    plan = build_plan(src, dst)
    assert len(plan.transfers) == 16
    for t in plan.transfers:
        assert _nodes(t.src_projection.falls) <= 4
        assert _nodes(t.dst_projection.falls) <= 4
