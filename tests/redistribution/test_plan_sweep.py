"""Plan construction against the references it replaced.

``build_plan`` sweeps a pair of product layouts once per dimension and
assembles every transfer as rows x columns; any other pair, and block
layouts on both sides, take the flattened sweep, which labels every
byte of one lcm window with its (source element, destination element)
pair.  The flattened sweep
(:func:`swept_plan`) must equal the pairwise construction it replaced
(:func:`reference_plan`: intersect all P x Q pairs of merged element
segment lists, compress each non-empty result, and PROJ it onto both
sides through the element's MAP) field for field — the same transfers in
the same order, with the same FALLS trees, displacements and periods.
Factorised plans must equal the flattened sweep segment for segment,
with trees no larger than its.  Neither may reach the pairwise
machinery.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.redistribution import RedistributionPlan, Transfer, build_plan, schedule

from ..properties.strategies import (
    array_shapes,
    nested_partitions,
    product_partitions,
)

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


def swept_plan(src, dst) -> RedistributionPlan:
    """``build_plan`` through the flattened sweep alone."""
    transfers = schedule._swept_transfers(
        src, dst, max(src.displacement, dst.displacement), math.lcm(src.size, dst.size)
    )
    candidates = src.num_elements * dst.num_elements
    return RedistributionPlan(
        src, dst, transfers, candidates, candidates - len(transfers)
    )


def nodes(falls_set) -> int:
    def count(f):
        return 1 + sum(count(g) for g in f.inner)

    return sum(count(f) for f in falls_set.falls)


def assert_same_bytes(plan, ref):
    """Same transfers in the same order; per set, the same displacement,
    period and merged period segments (from its lazy expansion and from
    its tree alike), and a tree no larger than the reference's."""
    assert [(t.src_element, t.dst_element) for t in plan.transfers] == [
        (t.src_element, t.dst_element) for t in ref.transfers
    ]
    assert (plan.candidate_pairs, plan.pruned_pairs) == (
        ref.candidate_pairs,
        ref.pruned_pairs,
    )
    assert plan.is_identity == ref.is_identity
    for t, r in zip(plan.transfers, ref.transfers):
        for got, want in (
            (t.intersection, r.intersection),
            (t.src_projection, r.src_projection),
            (t.dst_projection, r.dst_projection),
        ):
            assert (got.displacement, got.period) == (want.displacement, want.period)
            expanded = merge_segment_arrays(leaf_segment_arrays_set(got.falls.falls))
            for segs in (got._period_segments, expanded):
                np.testing.assert_array_equal(segs[0], want._period_segments[0])
                np.testing.assert_array_equal(segs[1], want._period_segments[1])
            assert nodes(got.falls) <= nodes(want.falls)


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


def _cold_views_pairs(grid, k):
    for n in NS:
        logical = _block_cyclic(n, k, grid)
        for physical in "rcb":
            subfiles = matrix_partition(physical, n, n, 4)
            yield logical, subfiles
            yield subfiles, logical


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("grid", GRIDS)
def test_cold_views_plans_equal_pairwise_reference(grid, k):
    for src, dst in _cold_views_pairs(grid, k):
        assert_same_plan(swept_plan(src, dst), reference_plan(src, dst))


@given(nested_partitions(), nested_partitions())
@settings(max_examples=100, deadline=None)
def test_nested_plans_equal_pairwise_reference(src, dst):
    # Unequal displacements start the window inside a pattern instance
    # of one side, so its runs are tiled from a phase.
    assert_same_plan(swept_plan(src, dst), reference_plan(src, dst))
    assert_same_bytes(build_plan(src, dst), swept_plan(src, dst))


@pytest.fixture
def sweeps(monkeypatch):
    """Calls of the flattened sweep, counted."""
    calls = []
    sweep = schedule._swept_transfers

    def counting(*args):
        calls.append(args)
        return sweep(*args)

    monkeypatch.setattr(schedule, "_swept_transfers", counting)
    return calls


@pytest.mark.parametrize("grid", GRIDS)
def test_cold_views_plans_are_factorised(grid, sweeps):
    """The 576 ``cold_views`` plans (both directions) take the product
    path, match the flattened sweep, and keep every projection within
    eight FALLS nodes (the flattened sweep's reached 320).  The two
    exceptions are row blocks on both sides (``bc(256, 64, 4 x 1)`` is
    ``r``), which the flattened sweep cuts into P + Q pieces."""
    pairs = [pair for k in KS for pair in _cold_views_pairs(grid, k)]
    plans = [build_plan(src, dst) for src, dst in pairs]
    contiguous = [(s, d) for s, d in pairs if s.contiguous and d.contiguous]
    assert [args[:2] for args in sweeps] == contiguous
    assert len(contiguous) == (2 if grid == (4, 1) else 0)
    for (src, dst), plan in zip(pairs, plans):
        assert_same_bytes(plan, swept_plan(src, dst))
        for t in plan.transfers:
            assert nodes(t.src_projection.falls) <= 8
            assert nodes(t.dst_projection.falls) <= 8


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_product_plans_equal_sweep_reference(data):
    # Two layouts of one array: whole-row displacements keep the pair a
    # product, others send it down the flattened sweep.
    array = data.draw(array_shapes())
    src = data.draw(product_partitions(array))
    dst = data.draw(product_partitions(array))
    assert_same_bytes(build_plan(src, dst), swept_plan(src, dst))


def test_product_plans_keep_is_identity(sweeps):
    """A diagonal transfer's projections come from one construction, so
    equal bytes give equal trees.  Row blocks against row blocks take the
    flattened sweep, which cuts them into P + Q pieces."""
    for layout in "rcb":
        p = matrix_partition(layout, 96, 64, 4)
        assert build_plan(p, p).is_identity
    q = _block_cyclic(96, 8, (2, 2))
    assert build_plan(q, q).is_identity
    assert not build_plan(
        matrix_partition("r", 96, 64, 4), matrix_partition("c", 96, 64, 4)
    ).is_identity
    assert [args[0].contiguous and args[1].contiguous for args in sweeps] == [True]


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
