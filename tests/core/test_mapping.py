"""Unit tests for MAP / MAP^{-1}, scalar and vectorised."""

import numpy as np
import pytest

from repro.core import (
    ElementMapper,
    Falls,
    FallsSet,
    MappingError,
    Partition,
    map_between,
    map_offset,
    unmap_offset,
)
from repro.core.indexset import pattern_element_indices
from repro.core.mapping import count_below


@pytest.fixture()
def row_partition():
    """4 'subfiles' of 2 contiguous bytes each, period 8."""
    return Partition([Falls(2 * i, 2 * i + 1, 8, 1) for i in range(4)])


@pytest.fixture()
def nested_partition():
    """Two elements with nested structure, period 16."""
    return Partition(
        [
            FallsSet([Falls(0, 7, 16, 1, (Falls(0, 1, 4, 2),)), Falls(8, 11, 4, 1)]),
            FallsSet([Falls(0, 7, 16, 1, (Falls(2, 3, 4, 2),)), Falls(12, 15, 4, 1)]),
        ]
    )


def oracle_positions(partition, element, file_length=256):
    return pattern_element_indices(
        partition.elements[element],
        partition.size,
        partition.displacement,
        file_length,
    )


class TestScalarMapping:
    def test_exact_matches_oracle(self, nested_partition):
        for e in range(2):
            offs = oracle_positions(nested_partition, e, 64)
            for rank, off in enumerate(offs.tolist()):
                assert map_offset(nested_partition, e, off) == rank
                assert unmap_offset(nested_partition, e, rank) == off

    def test_exact_raises_on_foreign_offset(self, row_partition):
        with pytest.raises(MappingError):
            map_offset(row_partition, 0, 2)

    def test_offsets_before_displacement(self):
        p = Partition([Falls(0, 3, 4, 1)], displacement=10)
        with pytest.raises(MappingError):
            map_offset(p, 0, 5)
        assert map_offset(p, 0, 5, mode="next") == 0
        with pytest.raises(MappingError):
            map_offset(p, 0, 5, mode="prev")

    def test_next_prev_match_oracle(self, nested_partition):
        for e in range(2):
            offs = oracle_positions(nested_partition, e, 64).tolist()
            for x in range(48):
                nxt = [o for o in offs if o >= x]
                prv = [o for o in offs if o <= x]
                if nxt:
                    assert map_offset(nested_partition, e, x, "next") == offs.index(
                        nxt[0]
                    )
                if prv:
                    assert map_offset(nested_partition, e, x, "prev") == offs.index(
                        prv[-1]
                    )

    def test_prev_raises_when_nothing_before(self, row_partition):
        # Offset 2 belongs to element 1; element 1's first byte is at 2,
        # so 'prev' of offset 1 has nothing to map to.
        with pytest.raises(MappingError):
            map_offset(row_partition, 1, 1, mode="prev")

    def test_unmap_negative_rejected(self, row_partition):
        with pytest.raises(MappingError):
            unmap_offset(row_partition, 0, -1)

    def test_tiling_across_periods(self, row_partition):
        # Element 1 owns file bytes 2,3,10,11,18,19,...
        assert map_offset(row_partition, 1, 10) == 2
        assert map_offset(row_partition, 1, 19) == 5
        assert unmap_offset(row_partition, 1, 4) == 18


class TestCountBelow:
    def test_counts(self, nested_partition):
        e0 = nested_partition.elements[0]
        # Element 0 selects pattern offsets {0,1,4,5,8,9,10,11}.
        assert count_below(e0, 0) == 0
        assert count_below(e0, 1) == 1
        assert count_below(e0, 4) == 2
        assert count_below(e0, 16) == 8

    def test_element_length(self, nested_partition):
        # 64-byte file = 4 periods -> 32 bytes per element.
        assert nested_partition.element_length(0, 64) == 32
        # 20 bytes = 1 period + 4 bytes {16,17,18,19} -> pattern offsets
        # {0,1,2,3}: element 0 owns 0,1.
        assert nested_partition.element_length(0, 20) == 8 + 2


class TestMapBetween:
    def test_roundtrip_between_partitions(self, row_partition, nested_partition):
        # Both partitions tile contiguously, so every byte of one element
        # maps somewhere in the other partition.
        for e in range(2):
            offs = oracle_positions(nested_partition, e, 32).tolist()
            for rank, off in enumerate(offs):
                owner = off % 8 // 2  # element of row_partition owning off
                y = map_between(nested_partition, e, row_partition, owner, rank)
                assert unmap_offset(row_partition, owner, y) == off


class TestElementMapper:
    @pytest.mark.parametrize("element", [0, 1])
    def test_matches_scalar(self, nested_partition, element):
        mapper = ElementMapper(nested_partition, element)
        offs = oracle_positions(nested_partition, element, 96)
        got = mapper.map_many(offs)
        want = np.array(
            [map_offset(nested_partition, element, int(x)) for x in offs]
        )
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(mapper.unmap_many(got), offs)

    def test_next_prev_modes(self, nested_partition):
        mapper = ElementMapper(nested_partition, 0)
        xs = np.arange(0, 48, dtype=np.int64)
        for mode in ("next", "prev"):
            want = []
            keep = []
            for x in xs.tolist():
                try:
                    want.append(map_offset(nested_partition, 0, x, mode))
                    keep.append(x)
                except MappingError:
                    pass
            got = mapper.map_many(np.array(keep, dtype=np.int64), mode)
            np.testing.assert_array_equal(got, np.array(want))

    def test_exact_raises(self, row_partition):
        mapper = ElementMapper(row_partition, 0)
        with pytest.raises(MappingError):
            mapper.map_many(np.array([2], dtype=np.int64))

    def test_element_size(self, nested_partition):
        assert ElementMapper(nested_partition, 0).element_size == 8

    def test_map_one(self, row_partition):
        mapper = ElementMapper(row_partition, 1)
        assert mapper.map_one(10) == 2
        assert mapper.unmap_one(2) == 10

    def test_displacement_handling(self):
        p = Partition([Falls(0, 1, 4, 1), Falls(2, 3, 4, 1)], displacement=3)
        mapper = ElementMapper(p, 0)
        # Element 0 owns file bytes 3,4,7,8,11,12...
        np.testing.assert_array_equal(
            mapper.map_many(np.array([3, 4, 7, 8, 11])), np.array([0, 1, 2, 3, 4])
        )
        np.testing.assert_array_equal(
            mapper.unmap_many(np.array([0, 1, 2, 3, 4])), np.array([3, 4, 7, 8, 11])
        )


class TestBookkeepingOnce:
    """The MAP recursion's binary-search tables (left indices and prefix
    sizes) are computed once per FALLS node, like its SIZE."""

    def _counting(self, monkeypatch):
        from repro.core import mapping

        calls = []
        real = mapping._prefix_sizes

        def counting(seq):
            calls.append(len(seq))
            return real(seq)

        monkeypatch.setattr(mapping, "_prefix_sizes", counting)
        return calls

    def test_second_identical_map_computes_no_prefix_sums(
        self, nested_partition, monkeypatch
    ):
        calls = self._counting(monkeypatch)
        # Offset 20 sits in the first FALLS' inner structure: the
        # recursion descends a level.
        first = map_offset(nested_partition, 0, 20)
        assert calls
        del calls[:]
        assert map_offset(nested_partition, 0, 20) == first
        assert calls == []

    def test_unmap_reuses_the_tables_map_built(self, nested_partition, monkeypatch):
        calls = self._counting(monkeypatch)
        for y in range(8):
            unmap_offset(nested_partition, 0, y)
            map_offset(nested_partition, 0, unmap_offset(nested_partition, 0, y))
        # One table for the element and one for its nested FALLS.
        assert len(calls) == 2
