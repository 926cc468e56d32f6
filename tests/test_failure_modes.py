"""Cross-module failure-mode and edge-case tests.

A library is defined as much by what it rejects as by what it accepts:
these tests pin down the error behaviour at module boundaries — corrupt
inputs, boundary sizes, degenerate structures — so refactors cannot
silently turn hard errors into wrong answers.
"""

import numpy as np
import pytest

from repro import (
    Falls,
    FallsSet,
    MappingError,
    Partition,
    PartitionError,
    PeriodicFallsSet,
    build_plan,
    collect,
    distribute,
    execute_plan,
    map_offset,
    round_robin,
    unmap_offset,
)
from repro.clusterfile import Clusterfile, WriteRequest
from repro.clusterfile.storage import FileBackedStore, FileStorage
from repro.simulation import ClusterConfig


@pytest.fixture(params=["memory", "file"])
def make_fs(request, tmp_path):
    """A Clusterfile factory over both storage backends — every edge
    behaviour must hold whether subfiles live in memory or on disk."""

    def _make(config=None):
        storage = (
            FileStorage(str(tmp_path / "subfiles"))
            if request.param == "file"
            else None
        )
        return Clusterfile(config or ClusterConfig(), storage=storage)

    return _make


class TestDegenerateStructures:
    def test_single_byte_file(self):
        p = Partition([Falls(0, 0, 1, 1)])
        assert p.size == 1
        assert map_offset(p, 0, 0) == 0
        data = np.array([42], dtype=np.uint8)
        assert collect(distribute(data, p), p, 1).tolist() == [42]

    def test_single_byte_elements(self):
        p = round_robin(8, 1)
        data = np.arange(64, dtype=np.uint8)
        buffers = distribute(data, p)
        assert all(b.size == 8 for b in buffers)
        np.testing.assert_array_equal(collect(buffers, p, 64), data)

    def test_maximally_nested_tree(self):
        f = Falls(0, 15, 16, 1)
        for _ in range(6):
            f = Falls(0, f.extent_stop, f.extent_stop + 1, 1, (f,))
        assert f.height() == 7
        assert f.size() == 16

    def test_huge_stride_tiny_blocks(self):
        f = Falls(0, 0, 1_000_000, 3)
        assert f.size() == 3
        assert f.extent_stop == 2_000_000
        segs = list(f.leaf_segments())
        assert [s.start for s in segs] == [0, 1_000_000, 2_000_000]

    def test_empty_redistribution(self):
        p = round_robin(2, 4)
        out = execute_plan(build_plan(p, p), [np.empty(0, np.uint8)] * 2, 0)
        assert all(b.size == 0 for b in out)


class TestMappingBoundaries:
    def test_offset_zero(self):
        p = round_robin(3, 5)
        assert map_offset(p, 0, 0) == 0
        assert unmap_offset(p, 0, 0) == 0

    def test_last_byte_of_period(self):
        p = round_robin(3, 5)
        assert map_offset(p, 2, 14) == 4
        assert unmap_offset(p, 2, 4) == 14

    def test_mode_validation_at_boundaries(self):
        p = Partition([Falls(0, 1, 4, 1), Falls(2, 3, 4, 1)], displacement=5)
        # First byte of element 1 in the whole file is offset 7.
        assert map_offset(p, 1, 0, mode="next") == 0
        with pytest.raises(MappingError):
            map_offset(p, 1, 6, mode="prev")
        assert map_offset(p, 1, 7, mode="prev") == 0

    def test_very_large_offsets(self):
        p = round_robin(4, 1024)
        x = 10**12
        y = map_offset(p, 2, x, mode="next")
        assert unmap_offset(p, 2, y) >= x
        assert map_offset(p, 2, unmap_offset(p, 2, y)) == y


class TestClusterfileEdges:
    def test_zero_byte_interval_rejected(self, make_fs):
        fs = make_fs()
        fs.create("f", round_robin(4, 4))
        fs.set_view("f", 0, round_robin(4, 4))
        with pytest.raises(ValueError):
            WriteRequest(fs.view_of("f", 0), 5, 4, np.zeros(0, np.uint8))

    def test_view_on_a_missing_element_rejected(self, make_fs):
        """Node 1's default element does not exist in the one-element
        ``round_robin(1, 64)``: setting that view raises, as a bad compute
        node does, instead of a later write storing nothing."""
        fs = make_fs()
        fs.create("f", round_robin(4, 16))
        whole = round_robin(1, 64)
        with pytest.raises(ValueError, match="no element 1"):
            fs.set_view("f", 1, whole)
        with pytest.raises(ValueError, match="no element -1"):
            fs.set_view("f", 0, whole, element=-1)
        assert ("f", 1) not in fs.views
        fs.set_view("f", 1, whole, element=0)
        data = np.arange(64, dtype=np.uint8)
        assert fs.write("f", [(1, 0, data)]).messages > 0
        np.testing.assert_array_equal(fs.linear_contents("f"), data)

    def test_buffer_interval_mismatch_rejected(self, make_fs):
        fs = make_fs()
        fs.create("f", round_robin(4, 4))
        v = fs.set_view("f", 0, round_robin(4, 4))
        with pytest.raises(ValueError):
            WriteRequest(v, 0, 9, np.zeros(5, np.uint8))

    def test_non_uint8_buffer_rejected(self, make_fs):
        fs = make_fs()
        fs.create("f", round_robin(4, 4))
        v = fs.set_view("f", 0, round_robin(4, 4))
        with pytest.raises(ValueError, match="uint8"):
            WriteRequest(v, 0, 4, np.zeros(4, np.float32))

    def test_non_contiguous_buffer_rejected(self, make_fs):
        fs = make_fs()
        fs.create("f", round_robin(4, 4))
        v = fs.set_view("f", 0, round_robin(4, 4))
        with pytest.raises(ValueError, match="contiguous"):
            WriteRequest(v, 0, 4, np.zeros(8, np.uint8)[::2])

    def test_single_byte_write(self, make_fs):
        fs = make_fs()
        fs.create("f", round_robin(4, 4))
        fs.set_view("f", 1, round_robin(4, 4))
        fs.write("f", [(1, 7, np.array([99], dtype=np.uint8))])
        # View 1 byte 7: period 16, element bytes 4..7 per period;
        # byte 7 of the view = file offset 4+16=20... verify via read.
        got = fs.read("f", [(1, 7, 1)])[0]
        assert got.tolist() == [99]

    def test_write_far_beyond_current_length(self, make_fs):
        fs = make_fs()
        fs.create("f", round_robin(4, 4))
        fs.set_view("f", 0, round_robin(4, 4))
        fs.write("f", [(0, 10_000, np.array([1], dtype=np.uint8))])
        got = fs.read("f", [(0, 10_000, 1)])[0]
        assert got.tolist() == [1]

    def test_read_of_never_written_region_is_zero(self, make_fs):
        fs = make_fs()
        fs.create("f", round_robin(4, 4))
        fs.set_view("f", 2, round_robin(4, 4))
        got = fs.read("f", [(2, 0, 64)])[0]
        assert not got.any()

    def test_concurrent_disjoint_writes_to_same_subfile(self, make_fs):
        # Two compute nodes write different periods of the same element
        # via distinct views - must not corrupt each other.
        fs = make_fs(ClusterConfig(compute_nodes=2, io_nodes=1))
        fs.create("f", Partition([Falls(0, 7, 8, 1)]))
        whole = Partition([Falls(0, 7, 8, 1)])
        fs.set_view("f", 0, whole, element=0)
        fs.set_view("f", 1, whole, element=0)
        fs.write(
            "f",
            [
                (0, 0, np.full(8, 1, np.uint8)),
                (1, 8, np.full(8, 2, np.uint8)),
            ],
        )
        got = fs.linear_contents("f", 16)
        assert got[:8].tolist() == [1] * 8
        assert got[8:].tolist() == [2] * 8


class TestFileBackedDurability:
    """Crash/restart behaviour of the on-disk subfile backend."""

    def test_reopen_after_crash_preserves_bytes(self, tmp_path):
        path = str(tmp_path / "sub0")
        store = FileBackedStore(0, path)
        payload = np.arange(16, dtype=np.uint8)
        store.view(3, 18)[:] = payload
        store.flush(sync=True)
        store.close()
        # A "restarted" process maps the same file and sees the bytes.
        reopened = FileBackedStore(0, path)
        np.testing.assert_array_equal(reopened.read(3, 18), payload)

    def test_closed_store_stays_usable(self, tmp_path):
        # close() releases the memmap; the next access re-maps the
        # backing file instead of treating the store as empty.
        store = FileBackedStore(0, str(tmp_path / "sub0"))
        store.view(0, 15)[:] = np.arange(16, dtype=np.uint8)
        store.close()
        np.testing.assert_array_equal(
            store.read(0, 15), np.arange(16, dtype=np.uint8)
        )

    def test_small_write_after_reopen_does_not_truncate(self, tmp_path):
        store = FileBackedStore(0, str(tmp_path / "sub0"))
        store.view(0, 15)[:] = np.full(16, 7, np.uint8)
        store.close()
        reopened = FileBackedStore(0, str(tmp_path / "sub0"))
        reopened.view(0, 0)[:] = 1  # tiny write must not shrink the file
        got = reopened.read(0, 15)
        assert got[0] == 1
        assert got[1:].tolist() == [7] * 15

    def test_flush_sync_is_idempotent(self, tmp_path):
        store = FileBackedStore(0, str(tmp_path / "sub0"))
        store.flush(sync=True)  # nothing mapped yet: must not raise
        store.view(0, 3)[:] = 9
        store.flush(sync=True)
        store.flush(sync=True)
        store.close()
        store.close()

    def test_unlink_removes_backing_files_and_mirrors(self, tmp_path):
        root = tmp_path / "subfiles"
        fs = Clusterfile(ClusterConfig(), storage=FileStorage(str(root)))
        fs.create("f", round_robin(4, 4), replication=2)
        fs.set_view("f", 0, round_robin(4, 4))
        fs.write("f", [(0, 0, np.ones(4, np.uint8))], to_disk=True)
        assert any(root.iterdir())
        fs.unlink("f")
        assert not any(root.iterdir())


class TestPeriodicEdges:
    def test_window_entirely_before_displacement(self):
        pfs = PeriodicFallsSet(FallsSet([Falls(0, 1, 4, 1)]), 100, 4)
        starts, _ = pfs.segments_in(0, 50)
        assert starts.size == 0
        assert pfs.count_in(0, 50) == 0

    def test_window_of_one_byte(self):
        pfs = PeriodicFallsSet(FallsSet([Falls(0, 1, 4, 1)]), 0, 4)
        assert pfs.count_in(4, 4) == 1
        assert pfs.count_in(2, 2) == 0

    def test_contiguous_run_none_for_fragments(self):
        pfs = PeriodicFallsSet(FallsSet([Falls(0, 0, 2, 4)]), 0, 8)
        assert pfs.contiguous_run_in(0, 7) is None
        assert pfs.contiguous_run_in(0, 0) == (0, 0)


class TestValidationMessages:
    """Errors must identify the offending structure."""

    def test_partition_gap_names_offset(self):
        with pytest.raises(PartitionError, match="gap after offset 1"):
            Partition([Falls(0, 1, 6, 1), Falls(4, 5, 6, 1)])

    def test_partition_overlap_names_offset(self):
        with pytest.raises(PartitionError, match="overlap near offset 2"):
            Partition([Falls(0, 3, 6, 1), Falls(2, 5, 6, 1)])

    def test_falls_stride_error_mentions_values(self):
        with pytest.raises(ValueError, match="stride 4 smaller than block length 8"):
            Falls(0, 7, 4, 2)

    def test_mapping_error_mentions_offset_and_element(self):
        p = round_robin(2, 4)
        with pytest.raises(MappingError, match="offset 4 does not map on element 0"):
            map_offset(p, 0, 4)
