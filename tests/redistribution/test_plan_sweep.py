"""The one-sweep plan construction against the pairwise one it replaced.

``build_plan`` labels every byte of one lcm window with its (source
element, destination element) pair in a single sweep over both
partitions.  :func:`reference_plan` is the construction it replaced:
intersect all P x Q pairs of merged element segment lists, compress each
non-empty result, and PROJ it onto both sides through the element's MAP.
The two must agree field for field — the same transfers in the same
order, with the same FALLS trees, displacements and periods — and the
sweep must never reach the pairwise machinery.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.mapping import ElementMapper
from repro.core.normalize import falls_set_from_segments
from repro.core.periodic import PeriodicFallsSet
from repro.core.projection import project
from repro.core.segments import (
    intersect_segment_arrays,
    leaf_segment_arrays_set,
    merge_segment_arrays,
)
from repro.distributions import BlockCyclic, matrix_partition, multidim_partition
from repro.redistribution import RedistributionPlan, Transfer, build_plan

from ..properties.strategies import nested_partitions

#: The ``cold_views`` layout list: ``bc(n, k, grid)`` against row,
#: column and block partitions of the same ``n x n`` byte matrix.
GRIDS = ((4, 1), (1, 4), (2, 2))
KS = (8, 16, 32, 64)
NS = (256, 320, 384, 448, 512, 576, 640, 768)


def reference_plan(src, dst) -> RedistributionPlan:
    """The P x Q construction: flat pairwise intersection over one lcm
    window, then PROJ of each result onto both sides."""
    lo = max(src.displacement, dst.displacement)
    period = math.lcm(src.size, dst.size)
    src_window, dst_window = (
        [p.element_segments(e, lo, lo + period - 1) for e in range(p.num_elements)]
        for p in (src, dst)
    )
    transfers = []
    for i, a in enumerate(src_window):
        for j, b in enumerate(dst_window):
            starts, lengths = intersect_segment_arrays(a, b)
            if starts.size == 0:
                continue
            inter = PeriodicFallsSet(
                falls_set_from_segments((starts - lo, lengths)), lo, period
            )
            transfers.append(
                Transfer(i, j, inter, project(inter, src, i), project(inter, dst, j))
            )
    candidates = src.num_elements * dst.num_elements
    return RedistributionPlan(
        src, dst, transfers, candidates, candidates - len(transfers)
    )


def assert_same_plan(plan, ref):
    assert plan.transfers == ref.transfers
    assert (plan.candidate_pairs, plan.pruned_pairs) == (
        ref.candidate_pairs,
        ref.pruned_pairs,
    )
    for t in plan.transfers:
        for pfs in (t.intersection, t.src_projection, t.dst_projection):
            seeded = pfs.__dict__["_period_segments"]
            expanded = merge_segment_arrays(leaf_segment_arrays_set(pfs.falls.falls))
            np.testing.assert_array_equal(seeded[0], expanded[0])
            np.testing.assert_array_equal(seeded[1], expanded[1])


def _block_cyclic(n, k, grid):
    return multidim_partition((n, n), 1, (BlockCyclic(k), BlockCyclic(k)), grid)


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("grid", GRIDS)
def test_cold_views_plans_equal_pairwise_reference(grid, k):
    for n in NS:
        logical = _block_cyclic(n, k, grid)
        for physical in "rcb":
            subfiles = matrix_partition(physical, n, n, 4)
            for src, dst in ((logical, subfiles), (subfiles, logical)):
                assert_same_plan(build_plan(src, dst), reference_plan(src, dst))


@given(nested_partitions(), nested_partitions())
@settings(max_examples=100, deadline=None)
def test_nested_plans_equal_pairwise_reference(src, dst):
    # Unequal displacements start the window inside a pattern instance
    # of one side, so its runs are tiled from a phase.
    assert_same_plan(build_plan(src, dst), reference_plan(src, dst))


def test_plan_path_never_maps_or_intersects_pairs(monkeypatch):
    """``core.map_many_calls_per_plan == 0``: a plan is built without
    MAP, PROJ or any pairwise intersection."""
    calls = {"map_many": 0, "intersect_segment_arrays": 0, "project": 0}
    original_map_many = ElementMapper.map_many

    def map_many(self, *args, **kwargs):
        calls["map_many"] += 1
        return original_map_many(self, *args, **kwargs)

    monkeypatch.setattr(ElementMapper, "map_many", map_many)
    for fn in (intersect_segment_arrays, project):

        def counting(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if (name.startswith("repro.") or name == __name__) and (
                getattr(mod, fn.__name__, None) is fn
            ):
                monkeypatch.setattr(mod, fn.__name__, counting)

    for src, dst in (
        (_block_cyclic(256, 8, (2, 2)), matrix_partition("c", 256, 256, 4)),
        (matrix_partition("b", 256, 256, 4), _block_cyclic(256, 16, (1, 4))),
        (matrix_partition("r", 64, 64, 4), matrix_partition("r", 64, 64, 4)),
    ):
        assert build_plan(src, dst).transfers
    assert calls == {"map_many": 0, "intersect_segment_arrays": 0, "project": 0}

    # The counters do count: the reference construction trips all three.
    reference_plan(matrix_partition("r", 64, 64, 4), matrix_partition("c", 64, 64, 4))
    assert all(calls.values())
