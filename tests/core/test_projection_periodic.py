"""Unit tests for intersection projections and periodic FALLS families."""

import sys
import threading

import numpy as np
import pytest

from repro.core import (
    ElementMapper,
    Falls,
    FallsSet,
    Partition,
    PeriodicFallsSet,
    intersect_elements,
    map_offset,
    project,
)
from repro.core.indexset import pattern_element_indices


class TestPeriodicFallsSet:
    def test_invalid_period(self):
        with pytest.raises(ValueError):
            PeriodicFallsSet(FallsSet([Falls(0, 1, 4, 1)]), 0, 0)

    def test_structure_beyond_period_rejected(self):
        with pytest.raises(ValueError):
            PeriodicFallsSet(FallsSet([Falls(0, 9, 10, 1)]), 0, 8)

    def test_segments_in_basic(self):
        pfs = PeriodicFallsSet(FallsSet([Falls(0, 1, 4, 1)]), 0, 4)
        starts, lengths = pfs.segments_in(0, 11)
        assert starts.tolist() == [0, 4, 8]
        assert lengths.tolist() == [2, 2, 2]

    def test_segments_in_with_displacement(self):
        pfs = PeriodicFallsSet(FallsSet([Falls(0, 1, 4, 1)]), 10, 4)
        starts, _ = pfs.segments_in(0, 21)
        assert starts.tolist() == [10, 14, 18]

    def test_segments_clipped(self):
        pfs = PeriodicFallsSet(FallsSet([Falls(0, 3, 8, 1)]), 0, 8)
        starts, lengths = pfs.segments_in(2, 9)
        assert starts.tolist() == [2, 8]
        assert lengths.tolist() == [2, 2]

    def test_count_in(self):
        pfs = PeriodicFallsSet(FallsSet([Falls(0, 1, 4, 1)]), 0, 4)
        assert pfs.count_in(0, 7) == 4
        assert pfs.count_in(2, 3) == 0

    def test_contiguity_check(self):
        full = PeriodicFallsSet(FallsSet([Falls(0, 7, 8, 1)]), 0, 8)
        assert full.is_contiguous_in(0, 7)
        assert full.is_contiguous_in(3, 20)  # periods touch seamlessly
        holey = PeriodicFallsSet(FallsSet([Falls(0, 3, 8, 1)]), 0, 8)
        assert holey.is_contiguous_in(0, 3)
        assert not holey.is_contiguous_in(0, 8)
        assert not holey.is_contiguous_in(2, 5)

    def test_fragment_count(self):
        pfs = PeriodicFallsSet(FallsSet([Falls(0, 0, 2, 4)]), 0, 8)
        assert pfs.fragment_count_per_period == 4
        merged = PeriodicFallsSet(
            FallsSet([Falls(0, 1, 4, 1), Falls(2, 3, 4, 1)]), 0, 4
        )
        assert merged.fragment_count_per_period == 1  # adjacent runs merge

    def test_empty(self):
        pfs = PeriodicFallsSet(FallsSet(()), 0, 4)
        assert pfs.is_empty
        starts, _ = pfs.segments_in(0, 100)
        assert starts.size == 0


def block_row_partitions():
    """Row-block physical vs column-block logical over an 8x8 byte matrix."""
    rows = Partition([Falls(16 * i, 16 * i + 15, 64, 1) for i in range(4)])
    cols = Partition([Falls(2 * i, 2 * i + 1, 8, 8) for i in range(4)])
    return rows, cols


class TestProjection:
    def test_projection_sizes(self):
        rows, cols = block_row_partitions()
        inter = intersect_elements(rows, 0, cols, 0)
        pr = project(inter, rows, 0)
        pc = project(inter, cols, 0)
        assert pr.size_per_period == inter.size_per_period
        assert pc.size_per_period == inter.size_per_period

    def test_projection_is_rank_image(self):
        rows, cols = block_row_partitions()
        inter = intersect_elements(rows, 1, cols, 2)
        mapper = ElementMapper(rows, 1)
        starts, lengths = inter.segments_in(
            inter.displacement, inter.displacement + inter.period - 1
        )
        file_offsets = np.concatenate(
            [np.arange(s, s + ln) for s, ln in zip(starts, lengths)]
        )
        want = set(mapper.map_many(file_offsets).tolist())
        proj = project(inter, rows, 1)
        got = set()
        ps, pl = proj.segments_in(proj.displacement, proj.displacement + proj.period - 1)
        for s, ln in zip(ps.tolist(), pl.tolist()):
            got.update(range(s, s + ln))
        assert got == want

    def test_projection_periodicity(self):
        rows, cols = block_row_partitions()
        inter = intersect_elements(rows, 0, cols, 0)
        proj = project(inter, cols, 0)
        # Column element owns 16 bytes per 64-byte file period.
        assert proj.period == 16

    def test_empty_projection(self):
        p = Partition([Falls(0, 3, 8, 1), Falls(4, 7, 8, 1)])
        inter = intersect_elements(p, 0, p, 1)
        proj = project(inter, p, 0)
        assert proj.is_empty

    def test_wrong_partition_rejected(self):
        rows, cols = block_row_partitions()
        inter = intersect_elements(rows, 0, cols, 0)
        odd = Partition([Falls(0, 2, 3, 1)])  # size 3 does not divide 64
        with pytest.raises(ValueError):
            project(inter, odd, 0)

    def test_identical_partitions_project_to_identity(self):
        p = Partition([Falls(0, 3, 8, 1), Falls(4, 7, 8, 1)])
        inter = intersect_elements(p, 0, p, 0)
        proj = project(inter, p, 0)
        assert proj.is_contiguous_in(0, 3)
        # The element's own bytes project onto its entire linear space:
        # one unbroken run across periods.
        starts, lengths = proj.segments_in(0, 15)
        assert starts.tolist() == [0]
        assert lengths.tolist() == [16]

    def test_projection_with_displacements(self):
        p1 = Partition([Falls(0, 1, 4, 1), Falls(2, 3, 4, 1)], displacement=0)
        p2 = Partition([Falls(0, 1, 4, 1), Falls(2, 3, 4, 1)], displacement=1)
        inter = intersect_elements(p1, 0, p2, 0)
        proj1 = project(inter, p1, 0)
        proj2 = project(inter, p2, 0)
        assert proj1.size_per_period == inter.size_per_period
        assert proj2.size_per_period == inter.size_per_period
        # Cross-check against the rank oracle for p1.
        offs = pattern_element_indices(p1.elements[0], p1.size, 0, 64)
        ranks = {int(o): r for r, o in enumerate(offs.tolist())}
        starts, lengths = inter.segments_in(inter.displacement, inter.displacement + inter.period - 1)
        want = set()
        for s, ln in zip(starts.tolist(), lengths.tolist()):
            want.update(ranks[o] for o in range(s, s + ln))
        got = set()
        ps, pl = proj1.segments_in(proj1.displacement, proj1.displacement + proj1.period - 1)
        for s, ln in zip(ps.tolist(), pl.tolist()):
            got.update(range(s, s + ln))
        assert got == want


def test_window_memo_is_safe_under_threads():
    """The plan cache hands one projection to every thread: concurrent
    ``segments_in`` calls over more windows than the memo holds evict
    each other's entries and must still answer every call."""
    from repro.distributions import matrix_partition
    from repro.redistribution import build_plan

    rows, cols = (matrix_partition(x, 64, 64, 4) for x in "rc")
    pfs = build_plan(rows, cols).transfers[0].src_projection
    windows = [(64 * k, 64 * k + 1000) for k in range(16)]
    fresh = PeriodicFallsSet(pfs.falls, pfs.displacement, pfs.period)
    want = [fresh.segments_in(lo, hi) for lo, hi in windows]
    errors, done = [], []

    def hammer():
        try:
            for n in range(3000):
                if errors:
                    break
                got = pfs.segments_in(*windows[n % 16])
                if not np.array_equal(got[0], want[n % 16][0]):
                    raise AssertionError(f"wrong segments for {windows[n % 16]}")
        except Exception as exc:  # reported below, with the thread's window
            errors.append(repr(exc))
        done.append(True)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(done) == 8
    assert errors == []
