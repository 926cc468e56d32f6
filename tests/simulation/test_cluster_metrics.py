"""Unit tests for cluster assembly."""

import pytest

from repro.simulation import Cluster, ClusterConfig


class TestClusterConfig:
    def test_defaults_match_paper(self):
        c = ClusterConfig()
        assert c.compute_nodes == 4
        assert c.io_nodes == 4
        assert c.contiguous_write_optimized is False  # the paper's setup

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(compute_nodes=0)
        with pytest.raises(ValueError):
            ClusterConfig(io_nodes=0)


class TestCluster:
    def test_node_naming(self):
        cluster = Cluster(ClusterConfig(compute_nodes=2, io_nodes=3))
        assert [n.name for n in cluster.io] == ["io0", "io1", "io2"]

    def test_subfile_round_robin(self):
        cluster = Cluster(ClusterConfig(io_nodes=3))
        assert cluster.io_node_for(0).index == 0
        assert cluster.io_node_for(4).index == 1
        assert cluster.io_node_for(5).index == 2

    def test_device_state_persists_across_operations(self):
        cluster = Cluster(ClusterConfig())
        cluster.io[0].disk.access_time(0, 100)
        assert cluster.io[0].disk.bytes_written == 100
        assert cluster.io[0].disk.position == 100
