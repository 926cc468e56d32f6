"""Unit tests for Clusterfile components: stores, views, servers, facade."""

import numpy as np
import pytest

from repro import Falls, Partition, matrix_partition, row_blocks, round_robin
from repro.clusterfile import Clusterfile, SubfileStore, IOServer
from repro.clusterfile.file_model import ClusterFile
from repro.clusterfile.view import set_view
from repro.core import FallsSet, PeriodicFallsSet
from repro.simulation import Cluster, ClusterConfig


class TestSubfileStore:
    def test_grows_on_demand(self):
        s = SubfileStore(0)
        assert s.length == 0
        w = s.view(10, 19)
        w[:] = 7
        assert s.length == 20
        assert s.data[10:20].tolist() == [7] * 10
        assert s.data[:10].tolist() == [0] * 10

    def test_read_beyond_eof_zero_filled(self):
        s = SubfileStore(0)
        s.view(0, 3)[:] = 9
        out = s.read(2, 7)
        assert out.tolist() == [9, 9, 0, 0, 0, 0]

    def test_invalid_windows(self):
        s = SubfileStore(0)
        with pytest.raises(ValueError):
            s.view(5, 4)
        with pytest.raises(ValueError):
            s.read(-1, 4)

    def test_growth_preserves_content(self):
        s = SubfileStore(0)
        s.view(0, 9)[:] = np.arange(10, dtype=np.uint8)
        s.view(100, 199)  # force reallocation
        assert s.data[:10].tolist() == list(range(10))


class TestClusterFileModel:
    def test_file_length_from_stores(self):
        phys = round_robin(2, 4)
        f = ClusterFile("x", phys)
        assert f.file_length() == 0
        f.stores[0].view(0, 3)  # subfile 0 bytes 0..3 = file bytes 0..3,8..11
        assert f.file_length() == 4
        f.stores[1].view(0, 5)  # subfile 1 byte 5 = file offset 13
        assert f.file_length() == 14

    def test_linear_contents_with_holes(self):
        phys = round_robin(2, 2)
        f = ClusterFile("x", phys)
        f.stores[1].view(0, 1)[:] = [5, 6]
        out = f.linear_contents(8)
        assert out.tolist() == [0, 0, 5, 6, 0, 0, 0, 0]


class TestSetView:
    def test_links_only_intersecting_subfiles(self):
        phys = matrix_partition("b", 32, 32, 4)
        logical = row_blocks(32, 32, 4)
        v = set_view(3, logical, 3, phys)
        assert sorted(v.links) == [2, 3]  # bottom row blocks
        assert v.compute_node == 3
        assert v.size_per_period == 32 * 32 // 4

    def test_identity_detection(self):
        phys = matrix_partition("r", 32, 32, 4)
        logical = row_blocks(32, 32, 4)
        v = set_view(1, logical, 1, phys)
        assert v.links[1].is_identity
        cross = set_view(1, matrix_partition("c", 32, 32, 4), 1, phys)
        assert not any(link.is_identity for link in cross.links.values())

    def test_length_for_file(self):
        logical = row_blocks(32, 32, 4)
        phys = matrix_partition("r", 32, 32, 4)
        v = set_view(0, logical, 0, phys)
        assert v.length_for_file(32 * 32) == 256
        assert v.length_for_file(100) == 100  # first element owns prefix


class TestIOServer:
    def _server(self):
        cluster = Cluster(ClusterConfig())
        store = SubfileStore(0)
        return IOServer(cluster.io_node_for(0), store, cluster.config), store

    def test_contiguous_write(self):
        server, store = self._server()
        proj = PeriodicFallsSet(FallsSet([Falls(0, 15, 16, 1)]), 0, 16)
        payload = np.arange(8, dtype=np.uint8)
        cost = server.write(0, 7, payload, proj, to_disk=False)
        assert cost.runs == 1
        assert cost.disk_s == 0.0
        assert store.data[:8].tolist() == list(range(8))

    @pytest.mark.parametrize("precomputed", [False, True])
    def test_scattered_write(self, precomputed):
        """A request carries the projection or, once it has crossed a
        process boundary, its precomputed segment arrays."""
        server, store = self._server()
        proj = PeriodicFallsSet(FallsSet([Falls(0, 1, 4, 1)]), 0, 4)
        if precomputed:
            proj = proj.segments_in(0, 7)
        payload = np.array([1, 2, 3, 4], dtype=np.uint8)
        cost = server.write(0, 7, payload, proj, to_disk=True)
        assert cost.runs == 2
        assert cost.disk_s > 0
        assert store.data[:8].tolist() == [1, 2, 0, 0, 3, 4, 0, 0]

    def test_payload_size_mismatch_rejected(self):
        server, _ = self._server()
        proj = PeriodicFallsSet(FallsSet([Falls(0, 1, 4, 1)]), 0, 4)
        with pytest.raises(ValueError):
            server.write(0, 7, np.zeros(3, np.uint8), proj, to_disk=False)

    @pytest.mark.parametrize("precomputed", [False, True])
    def test_read_returns_projection_bytes(self, precomputed):
        server, store = self._server()
        store.view(0, 7)[:] = np.arange(8, dtype=np.uint8)
        proj = PeriodicFallsSet(FallsSet([Falls(0, 1, 4, 1)]), 0, 4)
        if precomputed:
            proj = proj.segments_in(0, 7)
        payload, cost = server.read(0, 7, proj, from_disk=True)
        assert payload.tolist() == [0, 1, 4, 5]
        assert cost.nbytes == 4
        assert cost.disk_s > 0

    def test_empty_window(self):
        server, _ = self._server()
        proj = PeriodicFallsSet(FallsSet([Falls(0, 1, 4, 1)]), 0, 4)
        payload, cost = server.read(2, 3, proj, from_disk=False)
        assert payload.size == 0 and cost.nbytes == 0


class TestFacade:
    def test_create_open_unlink(self):
        fs = Clusterfile(ClusterConfig())
        fs.create("a", round_robin(4, 4))
        assert fs.open("a").num_subfiles == 4
        with pytest.raises(FileExistsError):
            fs.create("a", round_robin(4, 4))
        fs.unlink("a")
        with pytest.raises(KeyError):
            fs.open("a")

    def test_read_with_result_returns_timings(self):
        fs = Clusterfile(ClusterConfig())
        fs.create("a", round_robin(4, 4))
        fs.set_view("a", 0, round_robin(4, 4))
        data = np.arange(16, dtype=np.uint8)
        fs.write("a", [(0, 0, data[:4])])
        bufs, result = fs.read_with_result("a", [(0, 0, 4)])
        np.testing.assert_array_equal(bufs[0], data[:4])
        assert result.per_compute[0].t_w_bc > 0

    def test_default_view_element_is_node_index(self):
        fs = Clusterfile(ClusterConfig())
        fs.create("a", round_robin(4, 4))
        v = fs.set_view("a", 2, round_robin(4, 4))
        assert v.element == 2
        v = fs.set_view("a", 2, round_robin(4, 4), element=0)
        assert v.element == 0
